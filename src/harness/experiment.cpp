#include "src/harness/experiment.hpp"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <string_view>

namespace sdsm::harness {

namespace {

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// The gated row-level columns, in the schema's order; the DSM counters
/// follow them from kDsmCounters.  Gate classes as in stats.hpp, plus
/// `higher` for a direction-aware column whose drop is the regression.
struct RowColumn {
  std::string_view name, unit, gate;
};
constexpr RowColumn kRowColumns[] = {
    {"seconds", "s", "lower"},
    {"messages", "count", "exact"},
    {"megabytes", "MB", "exact"},
    {"barriers_per_step", "count", "exact"},
    {"rebuilds", "count", "exact"},
    {"jobs_per_sec", "1/s", "higher"},
    {"cache_hits", "count", "exact"},
    {"diff_create_seconds", "s", "lower"},
    {"diff_apply_seconds", "s", "lower"},
};

}  // namespace

Table::Table(std::string title, std::vector<std::string> /*extra_columns*/)
    : title_(std::move(title)) {}

void Table::add(Row row) { rows_.push_back(std::move(row)); }

double speedup(double seq_seconds, double par_seconds) {
  if (par_seconds <= 0) return 0;
  return seq_seconds / par_seconds;
}

void Table::print(std::ostream& os) const {
  os << "=== " << title_ << " ===\n";
  os << std::left << std::setw(34) << "Group" << std::setw(16) << "Variant"
     << std::right << std::setw(10) << "Time(s)" << std::setw(9) << "Speedup"
     << std::setw(10) << "Messages" << std::setw(10) << "Data(MB)"
     << std::setw(12) << "Ovhd(s)" << std::setw(10) << "Barr/step"
     << std::setw(10) << "Rebuilds" << "  Note\n";
  std::string last_group;
  for (const Row& r : rows_) {
    const bool first_of_group = r.group != last_group;
    os << std::left << std::setw(34) << (first_of_group ? r.group : "")
       << std::setw(16) << r.variant << std::right << std::fixed
       << std::setprecision(3) << std::setw(10) << r.seconds
       << std::setprecision(2) << std::setw(9) << r.speedup << std::setw(10)
       << r.messages << std::setprecision(2) << std::setw(10) << r.megabytes
       << std::setprecision(4) << std::setw(12) << r.overhead_seconds
       << std::setprecision(1) << std::setw(10) << r.barriers_per_step
       << std::setw(10) << r.rebuilds << "  " << r.note << "\n";
    last_group = r.group;
  }
  os << "\n";
}

void Table::print_json(std::ostream& os) const {
  os << "{\n  \"title\": ";
  json_string(os, title_);
  os << ",\n  \"schema\": [";
  const char* sep = "\n";
  const auto schema_entry = [&](std::string_view name, std::string_view unit,
                                std::string_view gate) {
    os << sep << "    {\"name\": \"" << name << "\", \"unit\": \"" << unit
       << "\", \"gate\": \"" << gate << "\"}";
    sep = ",\n";
  };
  for (const RowColumn& c : kRowColumns) schema_entry(c.name, c.unit, c.gate);
  for (const DsmCounter& c : kDsmCounters) schema_entry(c.name, c.unit, c.gate);
  os << "\n  ],\n  \"rows\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"group\": ";
    json_string(os, r.group);
    os << ", \"variant\": ";
    json_string(os, r.variant);
    os << ", \"seconds\": " << std::fixed << std::setprecision(6) << r.seconds
       << ", \"speedup\": " << std::setprecision(3) << r.speedup
       << ", \"seq_seconds\": " << std::setprecision(6) << r.seq_seconds
       << ", \"messages\": " << r.messages << ", \"megabytes\": "
       << std::setprecision(3) << r.megabytes << ", \"overhead_seconds\": "
       << std::setprecision(6) << r.overhead_seconds
       << ", \"diff_create_seconds\": " << r.diff_create_seconds
       << ", \"diff_apply_seconds\": " << r.diff_apply_seconds
       << ", \"refs\": "
       << r.refs << ", \"max_row\": " << r.max_row << ", \"schedule\": ";
    json_string(os, r.schedule);
    os << ", \"barriers_per_step\": " << std::setprecision(3)
       << r.barriers_per_step << ", \"rebuilds\": " << r.rebuilds
       << ", \"jobs_per_sec\": " << std::setprecision(3) << r.jobs_per_sec
       << ", \"cache_hits\": " << r.cache_hits;
    if (r.tmk) {
      for (const DsmCounter& c : kDsmCounters) {
        os << ", \"" << c.name << "\": " << (*r.tmk).*c.value;
      }
    }
    os << ", \"note\": ";
    json_string(os, r.note);
    os << "}";
  }
  os << "\n  ]\n}\n";
}

bool Table::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  print_json(f);
  return static_cast<bool>(f);
}

}  // namespace sdsm::harness
